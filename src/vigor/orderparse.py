"""Referential-order extraction from descriptions.

Two parsers produce the class-name order (target last):

* `parse_appearance_order` scans the text for known class names and keeps
  their first-appearance order.  Offline, deterministic, no reordering.
* `llm_two_stage_order` asks a hosted chat model twice: first to summarize
  the description and name the target, then to turn the summary into an
  explicit order.  The transport is injectable, and a canned-transcript
  fake keeps tests off the network.

`order_names` checks a parser reply and `trim_pad` normalizes its names
to exactly B without moving the target away from the last slot;
`model.pack_batch` runs the two on every order it packs.
"""

from __future__ import annotations

import functools
import json
import os
import re
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import (
    ContractError,
    EmptyOrderError,
    EndpointError,
    OrderParseError,
    ValidationError,
    check_field_types,
)
from .scene import ClassVocab, tokenize

__all__ = [
    "ParsedOrder",
    "LlmEndpointConfig",
    "TransportError",
    "HttpTransport",
    "CannedTransport",
    "load_transcript",
    "parse_appearance_order",
    "llm_two_stage_order",
    "trim_pad",
    "order_names",
    "FIRST_STAGE_PREFIX",
    "SECOND_STAGE_PREFIX",
]

ENDPOINT_ENV = "VIGOR_LLM_ENDPOINT"
KEY_ENV = "VIGOR_LLM_KEY"


@dataclass(frozen=True)
class ParsedOrder:
    """A referential order: anchor names first, the target name last."""

    names: tuple[str, ...]
    source: str  # "rule" | "llm"
    raw_response: str | None = None

    def __post_init__(self):
        if not self.names:
            raise ContractError("a parsed order needs at least one name")
        if any(n != n.lower() for n in self.names):
            raise ContractError("order names must be lowercase")

    @property
    def target(self) -> str:
        return self.names[-1]


@dataclass(frozen=True)
class LlmEndpointConfig:
    base_url: str
    model: str
    auth_env: str = KEY_ENV
    timeout: float = 30.0
    max_retries: int = 2

    def __post_init__(self):
        check_field_types(self)
        if not 0 < self.timeout < float("inf"):
            raise ContractError(f"timeout must be finite and positive, got {self.timeout}")
        if self.max_retries < 0:
            raise ContractError(f"max_retries cannot be negative, got {self.max_retries}")

    @classmethod
    def from_env(cls, model: str = "gpt-3.5-turbo") -> "LlmEndpointConfig":
        base = os.environ.get(ENDPOINT_ENV, "")
        if not base:
            raise EndpointError(f"set {ENDPOINT_ENV} to use the language-model parser")
        return cls(base_url=base, model=model)


class TransportError(Exception):
    """A single request attempt failed; the client may retry."""


class HttpTransport:
    """POSTs a chat-completions request and returns the first choice text."""

    def __init__(self, config: LlmEndpointConfig):
        self.config = config

    def __call__(self, prompt: str) -> str:
        # Imported here, not at module load: only this transport needs the
        # HTTP stack, and loading it costs every other command about 2 MB.
        import urllib.error
        import urllib.request

        body = json.dumps(
            {"model": self.config.model, "messages": [{"role": "user", "content": prompt}]}
        ).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(self.config.auth_env, "")
        if token:
            headers["Authorization"] = f"Bearer {token}"
        req = urllib.request.Request(
            self.config.base_url, data=body, headers=headers, method="POST"
        )
        try:
            with urllib.request.urlopen(req, timeout=self.config.timeout) as resp:
                payload = json.loads(resp.read().decode("utf-8"))
        except (urllib.error.URLError, TimeoutError, json.JSONDecodeError, OSError) as exc:
            raise TransportError(str(exc)) from exc
        try:
            choice = payload["choices"][0]
            text = choice["message"]["content"] if "message" in choice else choice["text"]
            if not isinstance(text, str):
                raise TypeError(f"the reply text is {text!r}")
        except (KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"unexpected response structure: {exc}") from exc
        return text


def _check_record(rec) -> dict:
    keys = ("request_substring", "response")
    if not (isinstance(rec, dict) and all(isinstance(rec.get(k), str) for k in keys)):
        raise ContractError(f"a transcript record needs string {keys} fields, got {rec!r}")
    return rec


class CannedTransport:
    """Replays recorded responses, matched by a substring of the request."""

    def __init__(self, records: Sequence[dict]):
        self.records = [_check_record(rec) for rec in records]

    def __call__(self, prompt: str) -> str:
        for rec in self.records:
            if rec["request_substring"] in prompt:
                return rec["response"]
        raise TransportError("no canned response matches the request")


def load_transcript(path) -> CannedTransport:
    """One record a non-blank JSONL line; a bad one raises ValidationError."""
    records = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                if line.strip():
                    records.append(_check_record(json.loads(line)))
            except ValueError as exc:  # not UTF-8, not JSON, or no record
                raise ValidationError(f"{path}:{lineno}: {exc}") from exc
    return CannedTransport(records)


# ---------------------------------------------------------------------------
# rule-based parser


@functools.lru_cache(maxsize=64)
def _names_by_tokens(vocab: ClassVocab) -> tuple[dict[tuple[str, ...], str], int]:
    """Each class name keyed by its words, and the most words of a name,
    once per vocabulary; a raise is not cached, so every parse raises."""
    by_tokens: dict[tuple[str, ...], str] = {}
    for name in vocab.names:
        other = by_tokens.setdefault(tuple(tokenize(name)), name)
        if other != name:
            raise ContractError(f"class names {other!r} and {name!r} tokenize to the same words")
    return by_tokens, max((len(t) for t in by_tokens), default=0)


def parse_appearance_order(description: str, vocab: ClassVocab) -> ParsedOrder:
    """Collect vocabulary class names in first-appearance order.

    Names and the description are split by the same `tokenize`, so
    "tv-stand" matches the words "tv stand".  Longest match wins at each
    position, so "water bottle" is preferred over a hypothetical "bottle"
    entry; matched words are consumed.  Two names with the same words
    raise `ContractError`, since the text cannot tell them apart.
    """
    tokens = tokenize(description)
    by_tokens, max_len = _names_by_tokens(vocab)
    names: list[str] = []
    seen: set[str] = set()
    i = 0
    while i < len(tokens):
        matched = False
        for length in range(min(max_len, len(tokens) - i), 0, -1):
            candidate = tuple(tokens[i : i + length])
            if candidate in by_tokens:
                name = by_tokens[candidate]
                if name not in seen:
                    seen.add(name)
                    names.append(name)
                i += length
                matched = True
                break
        if not matched:
            i += 1
    if not names:
        raise EmptyOrderError(f"no known class name in {description!r}")
    return ParsedOrder(names=tuple(names), source="rule")


# ---------------------------------------------------------------------------
# trim / pad


def order_names(reply: ParsedOrder | Sequence[str]) -> list[str]:
    """The class names of a parser reply: a ParsedOrder or a plain sequence.

    A bare string is refused: as a sequence it would read as one name a
    letter.  So are a reply without a name and a name that is not a
    string.  The names come back in the reply's own length; `trim_pad`
    fits them to the blocks.
    """
    if isinstance(reply, str):
        raise ContractError(f"a parser reply must be a sequence of names, not the string {reply!r}")
    names = list(getattr(reply, "names", reply))
    if not names:
        raise ContractError("a parser reply must hold at least one name")
    if not all(isinstance(name, str) for name in names):
        raise ContractError(f"order names must be strings, got {names!r}")
    return names


def trim_pad(order: Sequence[str], b: int) -> list[str]:
    """Force an order to length `b`: trim from the front, or left-pad by
    repeating the first element.  The target stays last either way."""
    if not order:
        raise ContractError("cannot trim or pad an empty order")
    if b < 1:
        raise ContractError("target length must be at least 1")
    order = list(order)
    if len(order) > b:
        return order[-b:]
    if len(order) < b:
        return [order[0]] * (b - len(order)) + order
    return order


# ---------------------------------------------------------------------------
# two-stage language-model client

_STAGE1_INTRO = (
    "I have some descriptions, each describing a specific target object in a room. "
    "However, they may have some redundant clauses or words. Your task is to summarize "
    "them into a shorter description. Also, tell me what the target object.\n"
    "Below are 10 examples:\n"
)

_STAGE1_EXAMPLES = [
    (
        "Assume you are facing the door in the room. Find the larger cabinet to its left.",
        "When facing the door, the cabinet on the right of it.",
        "cabinet",
    ),
    (
        "The water bottle that is above the easy chair. NOT the smaller water bottle "
        "that is above the orange table.",
        "The water bottle that is above the easy chair.",
        "water bottle",
    ),
    (
        "In the bedroom, you will see a sheer curtain. Beside the curtain is the steel "
        "window you need to find.",
        "The steel window beside a sheer curtain.",
        "window",
    ),
    (
        "Please find the towel hanging on the wall in the bathroom with the other three "
        "towels. You should find the one nearest to the door. Or say it is on the "
        "door's right side.",
        "The towel on the wall nearest to the door.",
        "towel",
    ),
    (
        "Between a pencil and a desk lamp on the desk is the backpack you need to find.",
        "The backpack between a pencil and a desk lamp on the desk.",
        "backpack",
    ),
    (
        "In the living room we have three bookshelves. Choose the bookshelf to the "
        "right of the clock facing a cabinet.",
        "The bookshelf to the right of the clock faces a cabinet.",
        "bookshelf",
    ),
    (
        "The person wearing a white T-shirt, not the man who is also sitting on the bed "
        "but with a jacket.",
        "The person wearing a white T-shirt on a bed.",
        "person",
    ),
    (
        "The purple pillow on the right side of the bed when facing it. Not the one on "
        "the left side and the one in the middle of the bed.",
        "The purple pillow on the right side of the bed when facing it.",
        "pillow",
    ),
    (
        "The brown door at the end of the living room, next to the trash cans, which "
        "are full of garbage.",
        "The brown door next to the full trash can.",
        "door",
    ),
    (
        "The shoes that are placed in the middle of five shoes near the door in the room.",
        "The middle shoes near the door.",
        "shoes",
    ),
]

_STAGE1_OUTRO = (
    "Now for the description [DESCRIPTION], give me the summarized description and the "
    'target object. Your answer must be in the form "summarized description:\n'
    'target object:"'
)

FIRST_STAGE_PREFIX = _STAGE1_INTRO + "".join(
    f"description {i}: {d}\nsummarized description {i}: {s}\ntarget object {i}: {t}\n\n"
    for i, (d, s, t) in enumerate(_STAGE1_EXAMPLES, start=1)
) + _STAGE1_OUTRO

_STAGE2_INTRO = (
    "I have some descriptions, each describing a specific target object with some "
    "supporting anchor objects helping the localization. We can find the specific "
    "target object by tracing the referential order of anchor objects step by step. "
    "Your task is to provide a correct referential order. Also, tell me what the "
    "mentioned anchor objects.\n"
    "Below are 10 examples:\n"
)

_STAGE2_EXAMPLES = [
    (
        "The water bottle that is above the easy chair.",
        "water bottle",
        "easy chair",
        "easy chair→water bottle",
    ),
    (
        "The steel window beside a sheer curtain.",
        "window",
        "curtain",
        "curtain→window",
    ),
    (
        "The trash can that is on the right of the king-size bed.",
        "trash can",
        "bed",
        "bed→trash can",
    ),
    (
        "The backpack between a pencil and a desk lamp. They are all on a wooden desk.",
        "backpack",
        "pencil, desk lamp, desk",
        "desk→pencil→desk lamp→backpack",
    ),
    (
        "The cabinet on the right of the door.",
        "cabinet",
        "door",
        "door→cabinet",
    ),
    (
        "The bookshelf to the right of the clock facing a cabinet.",
        "bookshelf",
        "clock, cabinet",
        "cabinet→clock→bookshelf",
    ),
    (
        "The person wearing a white T-shirt on a bed.",
        "person",
        "bed",
        "bed→person",
    ),
    (
        "The purple pillow on the right side of the bed when facing it.",
        "pillow",
        "bed",
        "bed→pillow",
    ),
    (
        "The brown door next to the full trash can.",
        "door",
        "trash can",
        "trash can→door",
    ),
    (
        "Please find the towel hanging on the wall in the bathroom with the other three "
        "towels. You should find the one nearest to the door. Or say it is on the "
        "door's right side.",
        "towel",
        "wall, door",
        "wall→door→towel",
    ),
]

_STAGE2_OUTRO = (
    "Now for the description: [DESCRIPTION], give me the anchor objects and the "
    'referential order. Your answer must be in the form "referential order, anchor '
    'objects:. "'
)

SECOND_STAGE_PREFIX = _STAGE2_INTRO + "".join(
    f"description {i}: {d}\ntarget object {i}: {t}\nanchor objects {i}: {a}\n"
    f"referential order {i}: {o}\n\n"
    for i, (d, t, a, o) in enumerate(_STAGE2_EXAMPLES, start=1)
) + _STAGE2_OUTRO


def _send_with_retries(transport: Callable[[str], str], prompt: str, max_retries: int) -> str:
    last = None
    for _ in range(max_retries + 1):
        try:
            return transport(prompt)
        except TransportError as exc:
            last = exc
    raise EndpointError(f"request failed after {max_retries + 1} attempts: {last}")


def _extract_field(text: str, key: str) -> str | None:
    m = re.search(rf"{re.escape(key)}\s*:\s*(.+)", text, flags=re.IGNORECASE)
    if m is None:
        return None
    value = m.group(1).strip()
    return value or None


def llm_two_stage_order(
    description: str,
    endpoint: LlmEndpointConfig | None = None,
    transport: Callable[[str], str] | None = None,
) -> ParsedOrder:
    """Summarize, then order: two in-context requests against a chat model.

    A failed request is retried up to `max_retries` times, read from
    `endpoint`, else from an `HttpTransport`'s own config, else the
    `LlmEndpointConfig` default.  If the model's stage-1 target disagrees
    with the last element of the stage-2 order, the order wins; both
    replies are preserved verbatim in raw_response for auditing.
    """
    if endpoint is None and transport is None:
        endpoint = LlmEndpointConfig.from_env()
    if transport is None:
        transport = HttpTransport(endpoint)
    elif endpoint is None and isinstance(transport, HttpTransport):
        endpoint = transport.config
    max_retries = endpoint.max_retries if endpoint else LlmEndpointConfig.max_retries

    reply1 = _send_with_retries(
        transport, FIRST_STAGE_PREFIX.replace("[DESCRIPTION]", description), max_retries
    )
    summary = _extract_field(reply1, "summarized description")
    target = _extract_field(reply1, "target object")
    if summary is None or target is None:
        raise OrderParseError(
            "stage-1 reply lacks 'summarized description:'/'target object:' lines",
            raw_response=reply1,
        )

    reply2 = _send_with_retries(
        transport, SECOND_STAGE_PREFIX.replace("[DESCRIPTION]", summary), max_retries
    )
    order_line = _extract_field(reply2, "referential order")
    if order_line is None:
        raise OrderParseError(
            "stage-2 reply lacks a 'referential order:' line", raw_response=reply2
        )
    names = tuple(
        n.strip().lower() for n in re.split(r"→|->", order_line) if n.strip()
    )
    if not names:
        raise OrderParseError("empty referential order", raw_response=reply2)
    raw = f"stage1:\n{reply1}\n---\nstage2:\n{reply2}"
    return ParsedOrder(names=names, source="llm", raw_response=raw)
