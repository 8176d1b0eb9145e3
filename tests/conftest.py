"""Shared fixtures: canned language-model transcripts and small configs."""

import json
import multiprocessing
import struct

import pytest

import vigor.model

# Four grounding descriptions with the replies a well-behaved chat model
# gives through the two-stage prompts.  Stage-1 requests embed the original
# description; stage-2 requests embed the stage-1 summary.  Substrings are
# chosen to be unique across all eight requests.
PARSE_CASES = [
    {
        "description": "The pillow closest to the foot of the bed.",
        "summary": "The pillow at the foot of the bed.",
        "target": "pillow",
        "order": ["bed", "pillow"],
        "order_line": "bed→pillow",
        "anchors": "bed",
    },
    {
        "description": (
            "Facing the bed, it's the large white pillow on the right. "
            "The second one from the headboard."
        ),
        "summary": "When facing the bed, the large white pillow second from the headboard.",
        "target": "pillow",
        "order": ["bed", "headboard", "pillow"],
        "order_line": "bed→headboard→pillow",
        "anchors": "bed, headboard",
    },
    {
        "description": "The front pillow on the bed with the laptop.",
        "summary": "The front pillow on the bed that has the laptop.",
        "target": "pillow",
        "order": ["laptop", "bed", "pillow"],
        "order_line": "laptop→bed→pillow",
        "anchors": "laptop, bed",
    },
    {
        "description": "The window near the table, not the one near the shelves.",
        "summary": "The window near the table.",
        "target": "window",
        "order": ["table", "window"],
        "order_line": "table→window",
        "anchors": "table",
    },
]


def transcript_records(cases=PARSE_CASES):
    records = []
    for case in cases:
        records.append(
            {
                "request_substring": case["description"],
                "response": (
                    f"summarized description: {case['summary']}\n"
                    f"target object: {case['target']}"
                ),
            }
        )
        records.append(
            {
                "request_substring": case["summary"],
                "response": (
                    f"referential order: {case['order_line']}\n"
                    f"anchor objects: {case['anchors']}"
                ),
            }
        )
    return records


def rewrite_checkpoint_header(path, mutate):
    """Apply `mutate` to a checkpoint's JSON header and write the file back."""
    blob = path.read_bytes()
    (hlen,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16 : 16 + hlen])
    mutate(header)
    new = json.dumps(header).encode("utf-8")
    path.write_bytes(blob[:8] + struct.pack("<Q", len(new)) + new + blob[16 + hlen :])


def set_header_length(path, length):
    blob = path.read_bytes()
    path.write_bytes(blob[:8] + struct.pack("<Q", length) + blob[16:])


# Length fields a loader must check before it allocates: each case once
# escaped as MemoryError instead of CheckpointError.  Array lengths are not
# stored; the header's config implies them (see test_trainer's huge-b and
# huge-d cases).
CORRUPT_LENGTHS = {
    "header-2^62": lambda path: set_header_length(path, 2**62),
}


# Parser replies holding an order name that is not a string: each once
# escaped `pack_batch` as AttributeError or TypeError.
NON_STRING_ORDERS = {"ints": [1, 2], "none": [None, "chair"], "bytes": [b"bed", "chair"]}


def forward_samples(model, scenes, orders, descriptions, labels=None, params=None):
    """`pack_batch` on the samples, then `model.forward_packed` under
    `labels` and `params`: the one way a caller passes either."""
    batch = vigor.model.pack_batch(scenes, orders, descriptions, model.word_vocab, model.cfg)
    return model.forward_packed(batch, labels, params)


@pytest.fixture
def a7_transcript_path(tmp_path):
    path = tmp_path / "transcript.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for rec in transcript_records():
            fh.write(json.dumps(rec) + "\n")
    return path


@pytest.fixture
def built_heads(monkeypatch):
    """The prefix of every head `vigor.model._mlp2` builds, in build order."""
    built = []
    real = vigor.model._mlp2

    def spy(p, prefix, x):
        if prefix.startswith("head."):
            built.append(prefix)
        return real(p, prefix, x)

    monkeypatch.setattr(vigor.model, "_mlp2", spy)
    return built


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail a test after which a multiprocessing child is still running, and
    stop the child so the next test starts clean."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.kill()
        child.join()
    assert not left, f"processes left running: {left}"
