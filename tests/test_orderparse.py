"""Tests for rule-based and language-model order parsing and trim_pad."""

import io
import json
import os
import socket
import subprocess
import sys
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from conftest import PARSE_CASES, NetworkBlocked, transcript_records
from vigor import orderparse
from vigor.cli import main
from vigor.errors import (
    ContractError,
    EmptyOrderError,
    EndpointError,
    OrderParseError,
    VigorError,
)
from vigor.orderparse import (
    FIRST_STAGE_PREFIX,
    SECOND_STAGE_PREFIX,
    CannedTransport,
    HttpTransport,
    LlmEndpointConfig,
    ParsedOrder,
    TransportError,
    llm_two_stage_order,
    load_transcript,
    order_names,
    parse_appearance_order,
    trim_pad,
)
from vigor.scene import ClassVocab, build_masks, tokenize
from vigor.synthgen import GenConfig, generate_dataset

VOCAB = ClassVocab(("chair", "door", "table", "water bottle", "easy chair", "bed"))


# ---------------------------------------------------------------------------
# rule parser


def test_appearance_order_on_template():
    text = "There is a door in the room, finally you can see the table farthest to that door."
    parsed = parse_appearance_order(text, VOCAB)
    assert list(parsed.names) == ["door", "table"]
    assert parsed.source == "rule"


def test_appearance_order_no_known_words():
    with pytest.raises(EmptyOrderError):
        parse_appearance_order("a completely unrelated sentence", VOCAB)


def test_appearance_order_multiword_no_reorder():
    parsed = parse_appearance_order("the water bottle above the easy chair", VOCAB)
    # appearance order is target-first here; the parser must not reorder
    assert list(parsed.names) == ["water bottle", "easy chair"]


def test_appearance_order_longest_match_consumes_words():
    vocab = ClassVocab(("desk", "desk lamp"))
    parsed = parse_appearance_order("the desk lamp next to the desk", vocab)
    assert list(parsed.names) == ["desk lamp", "desk"]


def test_appearance_order_duplicates_ignored():
    parsed = parse_appearance_order("table table door table", VOCAB)
    assert list(parsed.names) == ["table", "door"]


def test_appearance_order_case_and_punctuation():
    parsed = parse_appearance_order("The DOOR, then: the Water  Bottle!", VOCAB)
    assert list(parsed.names) == ["door", "water bottle"]


def test_appearance_order_tokenizes_names_like_descriptions():
    vocab = ClassVocab(("tv-stand", "chair"))
    parsed = parse_appearance_order("the chair near the tv-stand", vocab)
    assert list(parsed.names) == ["chair", "tv-stand"]


def test_appearance_order_names_with_the_same_words_are_refused():
    vocab = ClassVocab(("tv-stand", "chair", "tv stand"))
    with pytest.raises(ContractError, match="'tv-stand' and 'tv stand'"):
        parse_appearance_order("the chair near the tv stand", vocab)


def test_appearance_order_tokenizes_a_vocabulary_once(monkeypatch):
    calls = []

    def counted(text):
        calls.append(text)
        return tokenize(text)

    monkeypatch.setattr(orderparse, "tokenize", counted)
    # names no other test uses, so no table for them is cached yet
    vocab = ClassVocab(("gramophone", "harpsichord stool", "lute"))
    desc = "the lute by the harpsichord stool"
    for _ in range(3):
        assert parse_appearance_order(desc, vocab).names == ("lute", "harpsichord stool")
    assert sorted(calls) == sorted([*vocab.names, desc, desc, desc])


def test_round_trip_on_generated_templates():
    cfg = GenConfig(
        proposals_min=5,
        proposals_max=8,
        points_per_proposal=8,
        class_vocab_size=12,
        order_len=3,
        seed=11,
    )
    for sample in generate_dataset(cfg, 30):
        parsed = parse_appearance_order(sample.description, sample.scene.vocab)
        assert list(parsed.names) == sample.order


# ---------------------------------------------------------------------------
# trim / pad


def test_trim_from_front():
    assert trim_pad(["a", "b", "c", "d", "e"], 4) == ["b", "c", "d", "e"]


def test_pad_by_repeating_first():
    assert trim_pad(["x"], 4) == ["x", "x", "x", "x"]
    assert trim_pad(["a", "b"], 4) == ["a", "a", "a", "b"]


def test_exact_length_unchanged():
    assert trim_pad(["a", "b", "c", "d"], 4) == ["a", "b", "c", "d"]


def test_order_names_reads_a_reply_and_refuses_a_bare_string():
    assert order_names(ParsedOrder(names=("door", "chair"), source="rule")) == ["door", "chair"]
    assert order_names(("door", "chair")) == ["door", "chair"]
    with pytest.raises(ContractError, match="string 'chair'"):
        order_names("chair")  # not the five names c, h, a, i, r
    with pytest.raises(ContractError, match="at least one name"):
        order_names([])


@pytest.mark.parametrize(
    "reply", [[1, 2], ["chair", None], (b"bed",)], ids=["ints", "none", "bytes"]
)
def test_order_names_refuses_a_name_that_is_not_a_string(reply):
    with pytest.raises(ContractError, match="order names must be strings"):
        order_names(reply)


def test_order_names_keeps_the_reply_length():
    """Fitting to the blocks is `trim_pad`'s job, not the reply check's."""
    assert order_names(["table"]) == ["table"]
    assert order_names(ParsedOrder(("bed", "door", "chair"), "rule")) == ["bed", "door", "chair"]


def test_trim_pad_idempotent_and_target_preserving():
    rng = np.random.default_rng(0)
    pool = [f"c{i}" for i in range(10)]
    for _ in range(200):
        n = int(rng.integers(1, 8))
        order = [pool[i] for i in rng.choice(len(pool), size=n, replace=False)]
        out = trim_pad(order, 4)
        assert len(out) == 4
        assert out[-1] == order[-1]
        assert trim_pad(out, 4) == out


def test_trim_pad_rejects_empty():
    with pytest.raises(ContractError):
        trim_pad([], 4)


def test_left_pad_preserves_mask_semantics():
    """Padding repeats the first element, and masks are duplication
    invariant, so each block mask equals the clamped-suffix mask of the
    unpadded order."""
    rng = np.random.default_rng(1)
    b = 4
    names = list(VOCAB.names)
    for _ in range(100):
        n = int(rng.integers(1, b + 1))
        order = [names[i] for i in rng.choice(len(names), size=n, replace=False)]
        padded = trim_pad(order, b)
        labels = [int(c) for c in rng.integers(0, len(VOCAB), size=6)]
        padded_masks, masks = build_masks(labels, padded, VOCAB), build_masks(labels, order, VOCAB)
        for i in range(b):
            got = padded_masks[:, i]
            start = max(0, i - (b - n))
            want = masks[:, start]
            assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# two-stage client


def canned():
    return CannedTransport(transcript_records())


def test_two_stage_parses_all_cases():
    transport = canned()
    for case in PARSE_CASES:
        parsed = llm_two_stage_order(case["description"], transport=transport)
        assert list(parsed.names) == case["order"]
        assert parsed.source == "llm"
        assert case["summary"] in parsed.raw_response


def test_two_stage_requests_embed_prompts():
    seen = []

    class Spy(CannedTransport):
        def __call__(self, prompt):
            seen.append(prompt)
            return super().__call__(prompt)

    llm_two_stage_order(PARSE_CASES[0]["description"], transport=Spy(transcript_records()))
    assert len(seen) == 2
    assert seen[0].startswith(FIRST_STAGE_PREFIX[:40])
    assert PARSE_CASES[0]["description"] in seen[0]
    assert seen[1].startswith(SECOND_STAGE_PREFIX[:40])
    assert PARSE_CASES[0]["summary"] in seen[1]
    assert "[DESCRIPTION]" not in seen[0] and "[DESCRIPTION]" not in seen[1]


def test_malformed_stage2_response_is_parse_error():
    records = transcript_records()
    records[1]["response"] = "no arrows here"
    with pytest.raises(OrderParseError) as err:
        llm_two_stage_order(PARSE_CASES[0]["description"], transport=CannedTransport(records))
    assert err.value.raw_response == "no arrows here"


def test_malformed_stage1_response_is_parse_error():
    records = transcript_records()
    records[0]["response"] = "I refuse to answer"
    with pytest.raises(OrderParseError):
        llm_two_stage_order(PARSE_CASES[0]["description"], transport=CannedTransport(records))


def test_unmatched_request_becomes_endpoint_error():
    with pytest.raises(EndpointError):
        llm_two_stage_order("a description with no canned reply", transport=canned())


def test_transport_retries_then_succeeds():
    inner = canned()
    failures = {"n": 1}

    def flaky(prompt):
        if failures["n"] > 0:
            failures["n"] -= 1
            raise TransportError("connection reset")
        return inner(prompt)

    parsed = llm_two_stage_order(PARSE_CASES[0]["description"], transport=flaky)
    assert list(parsed.names) == PARSE_CASES[0]["order"]


def test_an_http_transport_is_tried_as_often_as_its_own_config_says():
    """With no endpoint given, an `HttpTransport`'s own `max_retries`
    holds, not the default; this one fails before any request is sent."""
    calls = []

    class Unreachable(HttpTransport):
        def __call__(self, prompt):
            calls.append(prompt)
            raise TransportError("connection refused")

    config = LlmEndpointConfig(base_url="http://localhost:9", model="m", max_retries=0)
    with pytest.raises(EndpointError, match="after 1 attempts"):
        llm_two_stage_order("the chair", transport=Unreachable(config))
    assert len(calls) == 1


def test_ascii_arrow_accepted():
    records = [
        {
            "request_substring": "plain case",
            "response": "summarized description: plain summary\ntarget object: chair",
        },
        {
            "request_substring": "plain summary",
            "response": "referential order: door->chair",
        },
    ]
    parsed = llm_two_stage_order("plain case", transport=CannedTransport(records))
    assert list(parsed.names) == ["door", "chair"]


def test_load_transcript_roundtrip(a7_transcript_path):
    transport = load_transcript(a7_transcript_path)
    parsed = llm_two_stage_order(PARSE_CASES[3]["description"], transport=transport)
    assert list(parsed.names) == ["table", "window"]


@pytest.mark.parametrize("content", [None, 7, ["referential order: a→b"]])
def test_http_reply_without_text_is_retried_then_endpoint_error(monkeypatch, content):
    sent = []

    def urlopen(req, timeout):
        sent.append(req)
        return io.BytesIO(json.dumps({"choices": [{"message": {"content": content}}]}).encode())

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    config = LlmEndpointConfig(base_url="http://localhost:9", model="m", max_retries=1)
    with pytest.raises(TransportError, match="unexpected response structure"):
        HttpTransport(config)("prompt")
    with pytest.raises(EndpointError, match="unexpected response structure"):
        llm_two_stage_order("the chair", endpoint=config)
    assert len(sent) == 1 + 2


@pytest.mark.parametrize(
    "choice", [{"message": {"content": "ok"}}, {"text": "ok"}], ids=["message", "text"]
)
@pytest.mark.parametrize("token", ["s3cret", None], ids=["token", "no-token"])
def test_http_transport_posts_a_chat_request_and_returns_the_reply_text(
    monkeypatch, choice, token
):
    """One POST to the configured URL within its timeout, with a bearer
    header only when the config's `auth_env` holds a token."""
    sent = []

    def urlopen(req, timeout):
        sent.append((req, timeout))
        return io.BytesIO(json.dumps({"choices": [choice]}).encode())

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    if token is None:
        monkeypatch.delenv("VIGOR_TEST_KEY", raising=False)
    else:
        monkeypatch.setenv("VIGOR_TEST_KEY", token)
    config = LlmEndpointConfig(
        base_url="http://localhost:9/v1", model="m", auth_env="VIGOR_TEST_KEY", timeout=5.0
    )
    assert HttpTransport(config)("the prompt") == "ok"
    ((req, timeout),) = sent
    assert (req.full_url, req.get_method(), timeout) == ("http://localhost:9/v1", "POST", 5.0)
    assert req.get_header("Content-type") == "application/json"
    assert req.get_header("Authorization") == (token and f"Bearer {token}")
    body = {"model": "m", "messages": [{"role": "user", "content": "the prompt"}]}
    assert json.loads(req.data) == body


def test_an_unreachable_endpoint_is_a_transport_error(monkeypatch):
    def urlopen(req, timeout):
        raise urllib.error.URLError("connection refused")

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    config = LlmEndpointConfig(base_url="http://localhost:9", model="m")
    with pytest.raises(TransportError, match="connection refused"):
        HttpTransport(config)("prompt")


def test_the_suite_cannot_reach_the_network():
    """A real `HttpTransport` request, unpatched, stops at the suite's guard
    (conftest's `no_network`) before any connection is made; so do both
    connect calls of a bare socket of either internet family."""
    config = LlmEndpointConfig(base_url="http://localhost:9", model="m", timeout=1.0)
    with pytest.raises(NetworkBlocked, match="tests may not connect"):
        HttpTransport(config)("prompt")
    for family, host in ((socket.AF_INET, "127.0.0.1"), (socket.AF_INET6, "::1")):
        with socket.socket(family, socket.SOCK_STREAM) as sock:
            with pytest.raises(NetworkBlocked):
                sock.connect((host, 9))
            with pytest.raises(NetworkBlocked):
                sock.connect_ex((host, 9))


def test_importing_the_package_leaves_the_http_stack_unloaded():
    """Only `HttpTransport` sends requests, so only a call to it loads urllib."""
    src = Path(__file__).resolve().parents[1] / "src"
    check = (
        "import sys\n"
        "for name in ('vigor.cli', 'vigor.trainer', 'vigor.evaluation'):\n"
        "    __import__(name)\n"
        "    assert 'urllib.request' not in sys.modules, name\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", check],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr


def test_endpoint_config_validation(monkeypatch):
    with pytest.raises(ContractError):
        LlmEndpointConfig(base_url="http://x", model="m", timeout=0)
    monkeypatch.delenv("VIGOR_LLM_ENDPOINT", raising=False)
    with pytest.raises(EndpointError):
        LlmEndpointConfig.from_env()
    monkeypatch.setenv("VIGOR_LLM_ENDPOINT", "http://localhost:9")
    assert LlmEndpointConfig.from_env().base_url == "http://localhost:9"


def test_parsed_order_invariants():
    with pytest.raises(ContractError):
        ParsedOrder(names=(), source="rule")
    with pytest.raises(ContractError):
        ParsedOrder(names=("Chair",), source="rule")
    assert ParsedOrder(names=("a", "b"), source="rule").target == "b"


# ---------------------------------------------------------------------------
# mutated language-model replies

# A key only stage-2 prompts hold, so a stage-2 reply is found whatever
# summary a mutated stage-1 reply gives; listed first, so a summary that
# repeats the description cannot reach the stage-1 record.
STAGE2_KEY = "give me the anchor objects and the referential order"
assert STAGE2_KEY in SECOND_STAGE_PREFIX and STAGE2_KEY not in FIRST_STAGE_PREFIX


def drop_lines(keep):
    return lambda reply: "\n".join(
        line for line, k in zip(reply.split("\n"), keep + [True] * 8) if k
    )


def empty_field(i):
    def mutate(reply):
        lines = reply.split("\n")
        key = lines[i % len(lines)].split(":")[0]
        lines[i % len(lines)] = f"{key}:"
        return "\n".join(lines)

    return mutate


def set_field(key, value):
    return lambda reply: "\n".join(
        f"{key}: {value}" if line.startswith(f"{key}:") else line for line in reply.split("\n")
    )


NAME = st.text(alphabet="abcdefghijklmnopqrstuvwxyz zq", min_size=1, max_size=12)
MUTATIONS = st.one_of(
    st.lists(st.booleans(), min_size=2, max_size=2).map(drop_lines),
    st.integers(0, 1).map(empty_field),
    st.text(alphabet="→->  ", max_size=12).map(lambda a: set_field("referential order", a)),
    st.lists(NAME, min_size=1, max_size=5).map(
        lambda names: set_field("referential order", "→".join(names))
    ),
    st.sampled_from(["target object", "summarized description", "referential order"]).flatmap(
        lambda key: st.integers(1_000, 5_000).map(lambda n: set_field(key, "bed→" * n + "x"))
    ),
    st.text(max_size=200).map(lambda text: lambda reply: text),
    st.text(max_size=40).map(lambda text: lambda reply: reply + "\n" + text),
)


def mutated_records(case, stage1_mutations, stage2_mutations):
    (stage1, stage2) = transcript_records([case])
    for mutate in stage1_mutations:
        stage1["response"] = mutate(stage1["response"])
    for mutate in stage2_mutations:
        stage2["response"] = mutate(stage2["response"])
    return [{**stage2, "request_substring": STAGE2_KEY}, stage1]


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    st.sampled_from(PARSE_CASES),
    st.lists(MUTATIONS, max_size=2),
    st.lists(MUTATIONS, max_size=2),
)
def test_a_mutated_reply_gives_an_order_or_a_package_error(
    tmp_path, capsys, case, stage1_mutations, stage2_mutations
):
    """Dropped lines, emptied fields, arrows only, very long text, unknown
    names: each reply pair yields an order or a `VigorError`, from the
    client and from `vigor parse --parser llm` (exit 1, no traceback)."""
    records = mutated_records(case, stage1_mutations, stage2_mutations)
    try:
        order = llm_two_stage_order(case["description"], transport=CannedTransport(records))
    except VigorError as exc:
        event(type(exc).__name__)
        order = None
    else:
        event("order")
        assert order.names and all(type(n) is str and n for n in order.names)

    transcript = tmp_path / "transcript.jsonl"
    transcript.write_text("".join(json.dumps(rec) + "\n" for rec in records), encoding="utf-8")
    argv = ["parse", "--desc", case["description"], "--parser", "llm"]
    code = main([*argv, "--transcript", str(transcript)])
    out, err = capsys.readouterr()
    if order is None:
        assert code == 1 and err.startswith("error: ") and "Traceback" not in err
    else:
        assert code == 0 and out == "→".join(order.names) + "\n"
